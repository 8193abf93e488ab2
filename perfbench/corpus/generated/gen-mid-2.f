program fuzz
  input integer :: n = 4
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12, i13, i14, i15, i16, i17, i18, i19
  integer :: a0(n)
  a0(4) = a0(2) + 2
  if (n >= 7) then
    print 1
    do i0 = 6, 4, -1
      do i1 = 2, n
        a0(-1*i1+6) = 9
        a0(i1) = a0(i0-2) + 3
        a0(4) = a0(3) + 2
        a0(2) = a0(1) + 0
        a0(1) = a0(-1*i0+7) + 3
        a0(5) = a0(2*i0-3) + 1
      end do
      if (i0 >= 8) then
        a0(-1*i0+7) = i0 * 3
      end if
    end do
    print 48
  end if
  a0(2) = 16
  i2 = 2
  while (i2 < 8) do
    if (i2 >= 7) then
      do i3 = 2, n, 2
        a0(2) = 11
      end do
      a0(3) = i2 * 3
      do i4 = 0, n
        a0(1) = i4 * 2
      end do
    else
      print 46
      a0(3) = a0(2) + 2
      a0(4) = i2 * 1
      do i5 = -2, 3
        print i5
        a0(1) = max(i5, 3)
        print i2
      end do
      if (i2 /= 6) then
        a0(3) = a0(4) + 3
        a0(1) = i2 * 1
        a0(3) = i2 + 4
      end if
      print i2
    end if
    if (i2 <= 1) then
      print i2
      a0(2) = i2 * 2
      a0(1) = a0(1) + 2
      if (i2 /= 1) then
        a0(2) = a0(4) + 3
      end if
    else
      a0(1) = a0(2) + 3
      print 29
      do i6 = 3, 9
        a0(2*i6-1) = i2 * 1
        a0(2) = i6 + 2
        a0(2) = a0(3) + 3
      end do
      a0(4) = a0(2) + 2
      do i7 = 1, i2, 3
        a0(3) = 10
        a0(3) = a0(3) + 2
        a0(1) = i2 * 2
      end do
    end if
    i2 = i2 + 1
  end while
  do i8 = 0, 1, 3
    i9 = 2
    while (i9 < 2) do
      do i10 = 0, -3, -1
        a0(i8+2) = max(i8, 1)
        a0(i10+4) = i9 * 1
        a0(-1*i9+3) = a0(i10+4) + 3
        print 29
      end do
      do i11 = -1, 1
        a0(2*i8+2) = max(i9, 0)
      end do
      a0(6) = i8 + 1
      if (i8 == 4) then
        a0(-1*i8+2) = max(i8, 1)
        a0(i9+1) = a0(2) + 2
        a0(i9-1) = i9 * 1
        a0(2*i8+1) = a0(-1*i8+4) + 2
        a0(i8+3) = -2
        a0(-1*i9+3) = a0(2*i9-1) + 3
      end if
      a0(-1*i9+4) = a0(2*i8+2) + 3
      i9 = i9 + 1
    end while
    a0(i8+2) = max(i8, 3)
    do i12 = 1, i8, 3
      a0(-1*i8+3) = -5
      do i13 = 3, 4, 3
        a0(i12) = a0(i8+1) + 3
        a0(i13-2) = a0(i8+3) + 1
        a0(i12+2) = a0(2*i13-4) + 1
        a0(i12-1) = a0(1) + 2
      end do
    end do
  end do
  if (n /= 6) then
    a0(1) = a0(5) + 1
    a0(2) = a0(1) + 0
    do i14 = n, 2, -2
      a0(1) = a0(i14) + 0
      do i15 = 2, n
        a0(i15) = i14 + 4
        a0(i14-1) = -2
        print 15
        a0(i15-4) = a0(-1*i14+6) + 1
        a0(i14-1) = a0(-1*i14+6) + 0
        a0(i15) = i15 + 2
      end do
      print 39
    end do
    do i16 = 6, 10
      do i17 = n, 1, -2
        a0(3) = max(i16, 3)
        a0(4) = a0(i17) + 3
        a0(4) = 3
        a0(i17) = 5
        a0(4) = a0(3) + 0
        a0(3) = a0(i16) + 1
      end do
      a0(2) = a0(1) + 1
      if (i16 <= 8) then
        a0(1) = a0(4) + 1
        print 13
        a0(7) = a0(4) + 2
        a0(1) = 12
      else
        a0(3) = a0(4) + 3
        a0(3) = a0(3) + 0
        a0(2) = a0(2) + 0
        a0(3) = max(i16, 1)
        print i16
      end if
      a0(2) = 13
      a0(4) = a0(2) + 2
      print i16
    end do
    do i18 = n, 2, -1
      a0(2) = 16
      a0(4) = i18 * 1
    end do
    if (n /= 3) then
      if (n > 5) then
        a0(2) = -2
        a0(1) = 17
      else
        a0(3) = a0(4) + 2
      end if
      if (n == 3) then
        a0(4) = a0(4) + 2
        a0(4) = a0(3) + 3
        a0(3) = 1
      else
        a0(3) = a0(2) + 3
      end if
      do i19 = 1, 1, 3
        a0(3) = a0(2*i19+2) + 2
        a0(-1*i19+1) = i19 * 3
        print i19
        a0(i19-2) = max(i19, 1)
      end do
    end if
  end if
  print 54
end program
