program fuzz
  input integer :: n = 4
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12, i13, i14
  integer :: a0(n)
  do i0 = 0, 6
    if (i0 == 3) then
      a0(3) = a0(2) + 1
    end if
    do i1 = 3, -4, -3
      print i1
      a0(2) = a0(3) + 2
    end do
    a0(4) = max(i0, 0)
  end do
  i2 = 0
  while (i2 < 5) do
    do i3 = -1, 1, 2
      do i4 = -2, -4
        a0(1) = 6
        a0(-1*i3+2) = a0(1) + 2
      end do
      do i5 = 0, 3
        a0(4) = i3 * 2
      end do
      i6 = 3
      while (i6 < 4) do
        a0(2) = a0(i6-2) + 2
        i6 = i6 + 1
      end while
    end do
    i2 = i2 + 1
  end while
  do i7 = 1, n
    do i8 = 1, i7
      i9 = 2
      while (i9 < 5) do
        a0(i9) = a0(2) + 1
        print i8
        a0(i9) = a0(i8) + 0
        i9 = i9 + 1
      end while
      do i10 = -2, 3
        print i8
        a0(i8) = i10 * 3
        a0(2) = a0(1) + 2
      end do
    end do
    if (i7 >= 3) then
      do i11 = -1, 0, 2
        a0(3) = a0(1) + 3
      end do
      do i12 = n, 2, -1
        a0(i12-1) = 20
        a0(1) = a0(i12) + 1
        a0(1) = a0(i7) + 3
      end do
      a0(1) = i7 * 3
      print i7
    end if
    do i13 = 0, -3, -1
      do i14 = 5, 0, -3
        a0(i13-1) = 18
        a0(3) = i13 + 2
        a0(i13+4) = a0(4) + 2
        a0(-1*i7+5) = max(i7, 0)
      end do
    end do
    if (i7 == 3) then
      print i7
    end if
  end do
  print 45
end program
