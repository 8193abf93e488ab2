program fuzz
  input integer :: n = 5
  integer :: i0, i1, i2, i3, i4, i5, i6, i7
  integer :: a0(0:n+1)
  integer :: a1(6)
  if (n > -1) then
    if (n > 3) then
      a1(2) = a1(1) + 1
      do i0 = 2, n, 3
        a0(-1*i0+7) = max(i0, 1)
        a1(i0-1) = max(i0, 3)
        a0(i0+1) = max(i0, 1)
      end do
    else
      a0(1) = a1(5) + 2
    end if
    if (n < 4) then
      a1(3) = 4
    else
      a0(1) = a1(5) + 3
      do i1 = 0, n
        a1(i1+1) = a0(2) + 0
        a0(4) = i1 * 1
        a1(i1+1) = i1 + 3
      end do
    end if
  end if
  do i2 = 1, n
    do i3 = 1, i2
      a0(-1*i2+5) = a1(4) + 2
    end do
    if (i2 >= 7) then
      a0(8) = a1(i2+1) + 0
      a1(i2) = i2 + 3
    end if
    a0(1) = 12
  end do
  if (n == 6) then
    do i4 = 2, 4
      do i5 = i4, 1, -3
        a1(-1*i5+6) = a1(i5) + 3
      end do
    end do
  else
    a1(5) = 0
    i6 = 2
    while (i6 < 8) do
      do i7 = 1, i6
        a1(-1*i6+8) = i6 + 5
        if (i6 == 4) then
          cycle
        end if
      end do
      print i6
      print i6
      i6 = i6 + 1
    end while
  end if
  a1(3) = a1(3) + 1
  print 55
end program
